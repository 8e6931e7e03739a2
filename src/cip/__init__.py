"""Corpus-level constrained inference for graph-based dependency parsing."""

from .config import InferenceConfig
from .constraints import (
    Constraint,
    coverage,
    expected_ratio,
    is_satisfied,
    load_constraints,
    ratio,
    ratio_gap,
    save_constraints,
)
from .core import (
    Corpus,
    FormatError,
    ParseTree,
    ScoreMatrix,
    Sentence,
    pair_corpus,
    read_conllu,
    read_scores,
    uas,
    write_conllu,
    write_scores,
)
from .decoder import (
    is_projective,
    mst_decode,
    projective_decode,
)
from .lagrangian import LrParams, lr_decode
from .posterior import PrParams, posterior_arc_probs, pr_decode, solve_dual
from .synthetic import SyntheticSpec, generate_synthetic
from .typology import (
    Orientation,
    TypologyTable,
    compile_binary,
    estimate_ratio,
    fit_unary_ratio,
)
from .view import CorpusView, InferenceResult

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "Corpus",
    "CorpusView",
    "FormatError",
    "InferenceConfig",
    "InferenceResult",
    "LrParams",
    "Orientation",
    "ParseTree",
    "PrParams",
    "ScoreMatrix",
    "Sentence",
    "SyntheticSpec",
    "TypologyTable",
    "compile_binary",
    "coverage",
    "estimate_ratio",
    "expected_ratio",
    "fit_unary_ratio",
    "generate_synthetic",
    "is_projective",
    "is_satisfied",
    "load_constraints",
    "lr_decode",
    "mst_decode",
    "pair_corpus",
    "posterior_arc_probs",
    "pr_decode",
    "projective_decode",
    "ratio",
    "ratio_gap",
    "read_conllu",
    "read_scores",
    "save_constraints",
    "solve_dual",
    "uas",
    "write_conllu",
    "write_scores",
]
