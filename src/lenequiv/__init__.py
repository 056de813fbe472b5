"""Length-equivalent curves on hyperbolic surfaces via the Goldman bracket.

Exact free-group word algebra, certified Fuchsian sampling, Fricke trace
polynomials, exact geodesic intersections, and the pair-construction
pipeline, behind a deterministic reporting CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetError,
    CertificationError,
    ConfigError,
    DegeneracyError,
    DegenerateInputError,
    HypothesisViolationError,
    LenEquivError,
    NonHyperbolicError,
    UnsupportedRankError,
)
from .word_algebra import (
    CyclicWord,
    SurfaceSpec,
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    cyclic_reduce,
    enumerate_reduced_words,
    free_reduce,
    invert,
    is_conjugate_to_inverse,
    is_proper_power,
    parse_word,
    power,
    word_str,
)
from .sl2 import (
    Axis,
    HPoint,
    Mat2,
    axis,
    classify,
    evaluate,
    hyperbolic_cosine_rule,
    mobius,
    translation_length,
)
from .trace_poly import TracePolynomial, chebyshev_power, trace_polynomial, verify_trace_identity
from .fuchsian import (
    PingPongCertificate,
    Representation,
    certify_ping_pong,
    sample_representation,
)
from .intersections import (
    IntersectionRecord,
    cyclic_order,
    exact_count,
    exact_intersections,
)
from .bracket import FormalSum, bracket, bracket_self, bracket_self_terms, equal_term_pairs
from .pipeline import (
    CurvePair,
    build_pair_general,
    build_pair_self,
    check_equal_length_symbolic,
    check_nonconjugate,
    find_min_N,
    is_filling,
    simple_candidates,
)
from .reports import Report, RunConfig, emit, load_config, run

__all__ = [
    # errors
    "AlphabetError",
    "CertificationError",
    "ConfigError",
    "DegeneracyError",
    "DegenerateInputError",
    "HypothesisViolationError",
    "LenEquivError",
    "NonHyperbolicError",
    "UnsupportedRankError",
    # word_algebra
    "CyclicWord",
    "SurfaceSpec",
    "Word",
    "are_conjugate",
    "compose",
    "conjugate",
    "cyclic_normal_form",
    "cyclic_reduce",
    "enumerate_reduced_words",
    "free_reduce",
    "invert",
    "is_conjugate_to_inverse",
    "is_proper_power",
    "parse_word",
    "power",
    "word_str",
    # sl2
    "Axis",
    "HPoint",
    "Mat2",
    "axis",
    "classify",
    "evaluate",
    "hyperbolic_cosine_rule",
    "mobius",
    "translation_length",
    # trace_poly
    "TracePolynomial",
    "chebyshev_power",
    "trace_polynomial",
    "verify_trace_identity",
    # fuchsian
    "PingPongCertificate",
    "Representation",
    "certify_ping_pong",
    "sample_representation",
    # intersections
    "IntersectionRecord",
    "cyclic_order",
    "exact_count",
    "exact_intersections",
    # bracket
    "FormalSum",
    "bracket",
    "bracket_self",
    "bracket_self_terms",
    "equal_term_pairs",
    # pipeline
    "CurvePair",
    "build_pair_general",
    "build_pair_self",
    "check_equal_length_symbolic",
    "check_nonconjugate",
    "find_min_N",
    "is_filling",
    "simple_candidates",
    # reports
    "Report",
    "RunConfig",
    "emit",
    "load_config",
    "run",
]
