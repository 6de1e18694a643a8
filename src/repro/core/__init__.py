"""The paper's core contribution: knowledge compilation into d-trees.

Implements Section 5: decomposition trees (Definition 7), the compilation
procedure of Algorithm 1 with the four independence rules, read-once
factorisation and Shannon expansion, bottom-up probability computation by
convolution (Theorem 2), the pruning rules for conditional expressions,
joint distributions by mutex decomposition, and budgeted approximation.
"""

from repro.core.approx import (
    ApproximateCompiler,
    ProbabilityBounds,
    approximate_probability,
)
from repro.core.compile import HEURISTICS, Compiler, compile_expression
from repro.core.export import to_dot
from repro.core.dtree import (
    CompareNode,
    CompileContext,
    ConstLeaf,
    DTree,
    MPlusNode,
    MutexNode,
    PlusNode,
    TableLeaf,
    TensorNode,
    TimesNode,
    VarLeaf,
)
from repro.core.pruning import prune, prune_comparison
from repro.core.stats import DTreeStats, collect_stats

__all__ = [
    "Compiler",
    "compile_expression",
    "HEURISTICS",
    "CompileContext",
    "DTree",
    "ConstLeaf",
    "VarLeaf",
    "TableLeaf",
    "PlusNode",
    "TimesNode",
    "MPlusNode",
    "TensorNode",
    "CompareNode",
    "MutexNode",
    "prune",
    "prune_comparison",
    "DTreeStats",
    "collect_stats",
    "ApproximateCompiler",
    "ProbabilityBounds",
    "approximate_probability",
    "to_dot",
]
