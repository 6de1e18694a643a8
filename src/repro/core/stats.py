"""Statistics over decomposition trees.

Used by the experiment harness to report the structural quantities the
paper's complexity analysis talks about: tree sizes, the number of
mutex (⊔) nodes introduced by Shannon expansion, the residuals rule 6's
base case tabulated instead (and over how many worlds), and the sizes of
the probability distributions materialised at the nodes (the ``|pᵢ|`` of
Theorem 2's ``O(Π |pᵢ|)`` bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

__all__ = ["DTreeStats", "collect_stats"]


@dataclass
class DTreeStats:
    """Structural summary of a d-tree (DAG-aware: shared nodes count once)."""

    dag_size: int = 0
    depth: int = 0
    leaf_count: int = 0
    var_leaves: int = 0
    const_leaves: int = 0
    plus_nodes: int = 0
    times_nodes: int = 0
    mplus_nodes: int = 0
    tensor_nodes: int = 0
    compare_nodes: int = 0
    mutex_nodes: int = 0
    mutex_branches: int = 0
    #: Residuals tabulated by rule 6's base case, and the worlds (Σ 2^k)
    #: valuated for them — why ``mutex_nodes`` can be 0 on a dependent
    #: expression.
    table_leaves: int = 0
    table_worlds: int = 0
    max_distribution_size: int | None = None
    node_distribution_sizes: list = field(default_factory=list)

    @property
    def decomposition_nodes(self) -> int:
        """Nodes created by the four independence rules (1-4)."""
        return (
            self.plus_nodes
            + self.times_nodes
            + self.mplus_nodes
            + self.tensor_nodes
            + self.compare_nodes
        )

    def distribution_cost(self) -> int:
        """``Π |pᵢ|``-style upper bound actually observed: the sum over
        all nodes (table leaves included) of their distribution sizes."""
        return sum(self.node_distribution_sizes)


def collect_stats(tree: DTree, ctx: CompileContext | None = None) -> DTreeStats:
    """Walk the d-tree DAG and summarise its structure.

    When a :class:`CompileContext` is given, the per-node distribution
    sizes are recorded as well (this evaluates the d-tree).
    """
    stats = DTreeStats()
    for node in tree.iter_unique():
        stats.dag_size += 1
        if isinstance(node, VarLeaf):
            stats.var_leaves += 1
            stats.leaf_count += 1
        elif isinstance(node, ConstLeaf):
            stats.const_leaves += 1
            stats.leaf_count += 1
        elif isinstance(node, TableLeaf):
            stats.table_leaves += 1
            stats.table_worlds += node.worlds
            stats.leaf_count += 1
        elif isinstance(node, PlusNode):
            stats.plus_nodes += 1
        elif isinstance(node, TimesNode):
            stats.times_nodes += 1
        elif isinstance(node, MPlusNode):
            stats.mplus_nodes += 1
        elif isinstance(node, TensorNode):
            stats.tensor_nodes += 1
        elif isinstance(node, CompareNode):
            stats.compare_nodes += 1
        elif isinstance(node, MutexNode):
            stats.mutex_nodes += 1
            stats.mutex_branches += len(node.branches)
        if ctx is not None:
            size = len(node.distribution(ctx))
            stats.node_distribution_sizes.append(size)
    stats.depth = tree.depth()
    if stats.node_distribution_sizes:
        stats.max_distribution_size = max(stats.node_distribution_sizes)
    return stats
