"""Length-equivalent curves on hyperbolic surfaces via the Goldman bracket.

Exact free-group word algebra, certified Fuchsian sampling, Fricke trace
polynomials, exact geodesic intersections, and the pair-construction
pipeline, behind a deterministic reporting CLI.

Only the error types and the bracket module are imported with the package,
and the bracket functions load the intersection engine on their first call;
every other public name loads its module on first use.
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

# `bracket` is both a submodule and the function exported under its name;
# binding the function here keeps it so whatever is imported first
from .bracket import FormalSum, bracket, bracket_self, bracket_self_terms, equal_term_pairs

# every other public name, by the module that defines it; each module is
# imported when one of its names is first looked up
_LAZY_NAMES = {
    "word_algebra": (
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
    ),
    "sl2": (
        "Axis",
        "Mat2",
        "axis",
        "classify",
        "evaluate",
        "mobius",
        "translation_length",
        "word_translation_length",
        "word_translation_lengths",
    ),
    "trace_poly": ("TracePolynomial", "chebyshev_power", "trace_identity", "trace_polynomial"),
    "fuchsian": ("PingPongCertificate", "Representation", "certify_ping_pong", "sample_representation"),
    "intersections": ("IntersectionRecord", "cyclic_order", "exact_count", "exact_intersections"),
    "pipeline": (
        "CurvePair",
        "build_pair_general",
        "build_pair_self",
        "check_equal_length_symbolic",
        "check_nonconjugate",
        "find_min_N",
        "is_filling",
        "simple_candidates",
    ),
    "reports": ("Report", "RunConfig", "emit", "load_config", "run"),
}
_MODULE_OF = {name: module for module, names in _LAZY_NAMES.items() for name in names}

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
    # bracket
    "FormalSum",
    "bracket",
    "bracket_self",
    "bracket_self_terms",
    "equal_term_pairs",
    *_MODULE_OF,
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
