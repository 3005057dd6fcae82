"""Zeta functions of type-colored 2-dimensional simplicial complexes.

The package models finite quotient complexes of the rank-3 affine building
(vertices typed in Z/3), builds the positive-edge and pointed-chamber
transfer operators, computes their exact zeta polynomials and the associated
rational-function ratio, enumerates closed positive geodesics and galleries
as an independent oracle, decomposes lattice points of rational sharp cones
into closed-form generating series, and classifies quotients against the
critical root modulus q^(1/2).
"""

from .complexes import (
    ComplexFormatError,
    SimplexCounts,
    TypedComplex,
    ValidationReport,
    dumps_complex,
    euler_characteristic,
    load_complex,
    loads_complex,
    save_complex,
    simplex_counts,
    validate_complex,
)
from .cones import (
    CharacterData,
    ConeClosedForm,
    ConeDecomposition,
    LatticeCone,
    assemble_multivariable_S,
    cone_generators,
    cone_series_closed_form,
    decompose,
    evaluate_partial_sum,
    fundamental_domain,
)
from .generators import (
    ApartmentSpec,
    BallSpec,
    GenerationError,
    gen_apartment_torus,
    gen_building_ball,
    gen_cycle_complex,
)
from .geodesics import (
    ClassWeight,
    GeodesicClass,
    assemble_S_series,
    closed_paths,
    count_closed_paths,
    enumerate_primitive_classes,
    primitive_counts,
    primitive_product,
    torus_primitive_counts,
    torus_trace_counts,
)
from .operators import (
    DirectedEdge,
    PointedChamber,
    SparseIntMatrix,
    build_chamber_operator,
    build_edge_operator,
    directed_edges,
    edge_successors,
    gallery_successors,
    pointed_chambers,
)
from .polynomials import (
    IntPolynomial,
    PowerSeriesPrefix,
    RationalFn,
    char_poly_reverse,
    log_derivative_series,
    series_exp_neg_integral,
)
from .rh import RHReport, classify_ramanujan, polynomial_roots
from .zeta import ratio, ratio_of, zeta_chamber, zeta_edge

__version__ = "0.1.0"

__all__ = [
    "ApartmentSpec", "BallSpec", "CharacterData", "ClassWeight",
    "ComplexFormatError", "ConeClosedForm", "ConeDecomposition",
    "DirectedEdge", "GenerationError", "GeodesicClass", "IntPolynomial",
    "LatticeCone", "PointedChamber", "PowerSeriesPrefix", "RHReport",
    "RationalFn", "SimplexCounts", "SparseIntMatrix", "TypedComplex",
    "ValidationReport", "assemble_S_series", "assemble_multivariable_S",
    "build_chamber_operator", "build_edge_operator", "char_poly_reverse",
    "classify_ramanujan", "closed_paths", "cone_generators",
    "cone_series_closed_form", "count_closed_paths", "decompose",
    "directed_edges", "dumps_complex", "edge_successors",
    "enumerate_primitive_classes", "euler_characteristic",
    "evaluate_partial_sum", "fundamental_domain", "gallery_successors",
    "gen_apartment_torus", "gen_building_ball", "gen_cycle_complex",
    "load_complex", "loads_complex", "log_derivative_series",
    "pointed_chambers", "polynomial_roots", "primitive_counts",
    "primitive_product", "ratio", "ratio_of", "save_complex",
    "series_exp_neg_integral", "simplex_counts", "torus_primitive_counts",
    "torus_trace_counts", "validate_complex", "zeta_chamber", "zeta_edge",
]
