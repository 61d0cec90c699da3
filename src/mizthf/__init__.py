"""Translate an idealized Mizar fragment to THF0.

The pipeline: ``parser`` reads signatures and statements, ``mizar``
holds the abstract syntax and the well-formedness pass, ``translate``
compiles statements to simply typed higher-order terms (``hol``) over
the fixed constant family (``declarations``), ``thf`` assembles and
prints problems, ``thfcheck`` re-parses them as a safety net, and
``patterns`` recovers scheme instantiations by higher-order pattern
matching.
"""

from .declarations import Declaration
from .hol import alpha_eq, beta_normalize, show_term, type_of
from .mizar import Diagnostic, MStatement, Signature, SourceError, well_formed
from .parser import parse_signature, parse_statement
from .patterns import (
    DisagreementPair, MatchError, NoMatch, NotAPattern, OccursEscape,
    SchemeMatch, ShapeMismatch, Substitution, is_pattern, pattern_match,
    recover_scheme_instantiation, strip_outer_quantifiers,
)
from .printer import print_statement
from .thf import Problem, assemble_problem, emit_thf
from .thfcheck import check_thf
from .translate import TranslationError, translate_statement

__version__ = "0.1.0"

__all__ = [
    "Declaration",
    "alpha_eq", "beta_normalize", "show_term", "type_of",
    "Diagnostic", "MStatement", "Signature", "SourceError", "well_formed",
    "parse_signature", "parse_statement",
    "DisagreementPair", "MatchError", "NoMatch", "NotAPattern",
    "OccursEscape", "SchemeMatch", "ShapeMismatch", "Substitution",
    "is_pattern", "pattern_match", "recover_scheme_instantiation",
    "strip_outer_quantifiers",
    "print_statement",
    "Problem", "assemble_problem", "emit_thf",
    "check_thf",
    "TranslationError", "translate_statement",
    "__version__",
]
