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
    Mat2,
    axis,
    classify,
    evaluate,
    mobius,
    translation_length,
    word_translation_length,
    word_translation_lengths,
)
from .trace_poly import TracePolynomial, chebyshev_power, trace_identity, trace_polynomial
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
    "free_reduce",
    "invert",
    "is_conjugate_to_inverse",
    "is_proper_power",
    "parse_word",
    "power",
    "word_str",
    # sl2
    "Axis",
    "Mat2",
    "axis",
    "classify",
    "evaluate",
    "mobius",
    "translation_length",
    "word_translation_length",
    "word_translation_lengths",
    # trace_poly
    "TracePolynomial",
    "chebyshev_power",
    "trace_identity",
    "trace_polynomial",
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
